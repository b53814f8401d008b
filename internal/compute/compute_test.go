package compute

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/metrics"
)

func registryWithMath(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register("add", func(ctx context.Context, args map[string]any) (any, error) {
		a, _ := args["a"].(float64)
		b, _ := args["b"].(float64)
		return a + b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("boom", func(ctx context.Context, args map[string]any) (any, error) {
		return nil, fmt.Errorf("deliberate failure")
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("panic", func(ctx context.Context, args map[string]any) (any, error) {
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("sleep", func(ctx context.Context, args map[string]any) (any, error) {
		d, _ := args["ms"].(float64)
		select {
		case <-time.After(time.Duration(d) * time.Millisecond):
			return "slept", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", func(ctx context.Context, a map[string]any) (any, error) { return nil, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register("x", nil); err == nil {
		t.Error("nil function accepted")
	}
	if err := reg.Register("x", func(ctx context.Context, a map[string]any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("x", func(ctx context.Context, a map[string]any) (any, error) { return nil, nil }); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Error("missing lookup accepted")
	}
}

func TestEndpointExecutesTasks(t *testing.T) {
	reg := registryWithMath(t)
	ep, err := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ep.Start()
	defer ep.Stop()

	fut, err := ep.Submit("add", map[string]any{"a": float64(2), "b": float64(3)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 5 {
		t.Fatalf("result = %v", v)
	}
	if fut.State() != Completed {
		t.Fatalf("state = %v", fut.State())
	}
}

func TestEndpointTaskErrorAndPanic(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 1})
	ep.Start()
	defer ep.Stop()

	fut, err := ep.Submit("boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(context.Background()); err == nil {
		t.Fatal("task error not propagated")
	}
	if fut.State() != Errored {
		t.Fatalf("state = %v", fut.State())
	}
	// A panicking task must not kill the worker.
	fut2, err := ep.Submit("panic", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut2.Get(context.Background()); err == nil {
		t.Fatal("panic not converted to error")
	}
	fut3, err := ep.Submit("add", map[string]any{"a": float64(1), "b": float64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := fut3.Get(context.Background()); err != nil || v.(float64) != 2 {
		t.Fatalf("worker dead after panic: %v %v", v, err)
	}
}

func TestEndpointBoundedConcurrency(t *testing.T) {
	reg := NewRegistry()
	var now, peak int64
	var mu sync.Mutex
	if err := reg.Register("probe", func(ctx context.Context, args map[string]any) (any, error) {
		mu.Lock()
		now++
		if now > peak {
			peak = now
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		now--
		mu.Unlock()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 4})
	ep.Start()
	defer ep.Stop()
	args := make([]map[string]any, 20)
	if _, err := ep.Map(context.Background(), "probe", args); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 4 {
		t.Fatalf("peak concurrency %d exceeds 4 workers", peak)
	}
	if peak < 2 {
		t.Fatalf("peak concurrency %d: pool not parallel", peak)
	}
}

// TestEndpointInstrument: the executor gauges read the endpoint's live
// busy-worker count and queue depth under the given executor label.
func TestEndpointInstrument(t *testing.T) {
	reg := NewRegistry()
	running, release := make(chan struct{}, 3), make(chan struct{})
	if err := reg.Register("hold", func(ctx context.Context, args map[string]any) (any, error) {
		running <- struct{}{}
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 1})
	mreg := metrics.NewRegistry()
	ep.Instrument(mreg, "pre")
	ep.Start()
	defer ep.Stop()
	defer close(release)
	for i := 0; i < 3; i++ {
		if _, err := ep.Submit("hold", nil); err != nil {
			t.Fatal(err)
		}
	}
	<-running // the one worker holds the first task; two wait
	gauges := map[string]float64{}
	for _, f := range mreg.Snapshot() {
		for _, s := range f.Series {
			if len(s.Labels) != 1 || s.Labels[0] != metrics.L("executor", "pre") {
				t.Fatalf("%s labels = %v, want executor=pre", f.Name, s.Labels)
			}
			gauges[f.Name] = s.Value
		}
	}
	if gauges["eoml_executor_busy_workers"] != 1 || gauges["eoml_executor_queued_tasks"] != 2 {
		t.Fatalf("gauges = %v, want busy 1 and queued 2", gauges)
	}
}

func TestEndpointGracefulStopDrainsQueue(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 2})
	ep.Start()
	var futs []*Future
	for i := 0; i < 10; i++ {
		f, err := ep.Submit("sleep", map[string]any{"ms": float64(5)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	ep.Stop() // must wait for all queued tasks
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("task %d not finished after Stop", i)
		}
	}
	if _, err := ep.Submit("add", nil); err == nil {
		t.Fatal("submit after stop accepted")
	}
}

func TestEndpointQueueFull(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 1, QueueDepth: 2})
	ep.Start()
	defer ep.Stop()
	overflowed := false
	for i := 0; i < 10; i++ {
		if _, err := ep.Submit("sleep", map[string]any{"ms": float64(50)}); err != nil {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("queue depth 2 never overflowed")
	}
}

func TestEndpointTaskTimeout(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 1, TaskTimeout: 20 * time.Millisecond})
	ep.Start()
	defer ep.Stop()
	fut, err := ep.Submit("sleep", map[string]any{"ms": float64(5000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(context.Background()); err == nil {
		t.Fatal("timeout not enforced")
	}
}

func TestWorkerChangeHookObservesActivity(t *testing.T) {
	reg := registryWithMath(t)
	var maxActive int64
	ep, _ := NewEndpoint("e", reg, EndpointConfig{
		Workers: 3,
		OnWorkerChange: func(active int) {
			for {
				cur := atomic.LoadInt64(&maxActive)
				if int64(active) <= cur || atomic.CompareAndSwapInt64(&maxActive, cur, int64(active)) {
					break
				}
			}
		},
	})
	ep.Start()
	args := make([]map[string]any, 9)
	for i := range args {
		args[i] = map[string]any{"ms": float64(10)}
	}
	if _, err := ep.Map(context.Background(), "sleep", args); err != nil {
		t.Fatal(err)
	}
	ep.Stop()
	if atomic.LoadInt64(&maxActive) < 2 {
		t.Fatalf("hook saw max active %d", maxActive)
	}
	if ep.ActiveWorkers() != 0 {
		t.Fatalf("active after stop = %d", ep.ActiveWorkers())
	}
}

func TestHTTPTransportRoundTrip(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("remote-dtn", reg, EndpointConfig{Workers: 2})
	ep.Start()
	defer ep.Stop()
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()

	client := NewRemoteEndpoint(srv.URL)
	ctx := context.Background()

	name, _, fns, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if name != "remote-dtn" || len(fns) != 4 {
		t.Fatalf("status %q %v", name, fns)
	}

	fut, err := client.Submit(ctx, "add", map[string]any{"a": 40, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 42 {
		t.Fatalf("remote result %v", v)
	}
}

func TestHTTPTransportErrors(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("remote", reg, EndpointConfig{Workers: 1})
	ep.Start()
	defer ep.Stop()
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	client := NewRemoteEndpoint(srv.URL)
	ctx := context.Background()

	if _, err := client.Submit(ctx, "nonexistent", nil); err == nil {
		t.Error("unknown function accepted")
	}
	fut, err := client.Submit(ctx, "boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(ctx); err == nil {
		t.Error("remote task error not propagated")
	}
	bogus := &RemoteFuture{TaskID: "nope", ep: client}
	if _, err := bogus.Poll(ctx); err == nil {
		t.Error("unknown remote task accepted")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("iden", func(ctx context.Context, args map[string]any) (any, error) {
		return args["i"], nil
	}); err != nil {
		t.Fatal(err)
	}
	ep, _ := NewEndpoint("e", reg, EndpointConfig{Workers: 8})
	ep.Start()
	defer ep.Stop()
	args := make([]map[string]any, 50)
	for i := range args {
		args[i] = map[string]any{"i": float64(i)}
	}
	results, err := ep.Map(context.Background(), "iden", args)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.(float64) != float64(i) {
			t.Fatalf("result[%d] = %v", i, r)
		}
	}
}

// TestSubmitDrainingTyped pins the typed drain rejection: after Stop, a
// local Submit fails with ErrDraining (errors.Is), and the same error
// survives the HTTP hop as a 503 so a remote submitter can distinguish
// requeue-able rejections from fatal ones.
func TestSubmitDrainingTyped(t *testing.T) {
	reg := registryWithMath(t)
	ep, err := NewEndpoint("drain", reg, EndpointConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Never-started endpoints are "not running", not draining.
	if _, err := ep.Submit("add", nil); errors.Is(err, ErrDraining) {
		t.Fatalf("unstarted Submit = %v, want a non-draining error", err)
	}

	ep.Start()
	ts := httptest.NewServer(ep.Handler())
	defer ts.Close()
	ep.Stop()

	if _, err := ep.Submit("add", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Stop = %v, want ErrDraining", err)
	}
	remote := NewRemoteEndpoint(ts.URL)
	if _, err := remote.Submit(context.Background(), "add", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("remote Submit after Stop = %v, want ErrDraining across the HTTP hop", err)
	}
}

// TestSubmitStopRace hammers Submit against a concurrent Stop: every
// submission must either be accepted (and its future complete) or fail
// with ErrDraining — never panic on the closed queue.
func TestSubmitStopRace(t *testing.T) {
	reg := registryWithMath(t)
	ep, err := NewEndpoint("race", reg, EndpointConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ep.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				fut, err := ep.Submit("add", map[string]any{"a": 1.0, "b": 2.0})
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("Submit = %v, want nil or ErrDraining", err)
					}
					return
				}
				if _, err := fut.Get(context.Background()); err != nil {
					t.Errorf("accepted task errored: %v", err)
				}
			}
		}()
	}
	ep.Stop()
	wg.Wait()
}

// TestSubmitBatchExecutesAll: a batch submit enqueues every task in one
// call, results come back per-future, and the OnEnqueue hook sees each
// accepted task exactly once.
func TestSubmitBatchExecutesAll(t *testing.T) {
	reg := registryWithMath(t)
	var enq atomic.Int64
	ep, err := NewEndpoint("dtn1", reg, EndpointConfig{
		Workers:   2,
		OnEnqueue: func(fn string, args map[string]any) { enq.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ep.Start()
	defer ep.Stop()

	specs := make([]Spec, 5)
	for i := range specs {
		specs[i] = Spec{Function: "add", Args: map[string]any{"a": float64(i), "b": float64(1)}}
	}
	futs, err := ep.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(futs) != 5 {
		t.Fatalf("futures = %d, want 5", len(futs))
	}
	for i, f := range futs {
		v, err := f.Get(context.Background())
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if v.(float64) != float64(i+1) {
			t.Fatalf("task %d = %v, want %d", i, v, i+1)
		}
	}
	if enq.Load() != 5 {
		t.Fatalf("OnEnqueue saw %d tasks, want 5", enq.Load())
	}
}

// TestSubmitBatchAllOrNothing: one unknown function rejects the whole
// batch with nothing enqueued, and a draining endpoint rejects with the
// typed error.
func TestSubmitBatchAllOrNothing(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 1})
	ep.Start()
	_, err := ep.SubmitBatch([]Spec{
		{Function: "add", Args: map[string]any{"a": float64(1), "b": float64(1)}},
		{Function: "no-such-fn"},
	})
	if err == nil {
		t.Fatal("batch with unknown function accepted")
	}
	ep.mu.Lock()
	if len(ep.futures) != 0 {
		ep.mu.Unlock()
		t.Fatalf("rejected batch left %d futures behind", len(ep.futures))
	}
	ep.mu.Unlock()
	ep.Stop()
	_, err = ep.SubmitBatch([]Spec{{Function: "add"}})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Stop batch error = %v, want ErrDraining", err)
	}
}

// TestSubmitBatchQueueCapacity: a batch larger than the queue's free
// space is rejected whole.
func TestSubmitBatchQueueCapacity(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 1, QueueDepth: 2})
	ep.Start()
	defer ep.Stop()
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Function: "sleep", Args: map[string]any{"ms": float64(1)}}
	}
	if _, err := ep.SubmitBatch(specs); err == nil {
		t.Fatal("batch beyond queue capacity accepted")
	}
}

// TestHTTPBatchRoundTrip drives the two batch verbs over a real
// listener: one submit_batch round-trip in, one tasks/poll round-trip
// out with every result.
func TestHTTPBatchRoundTrip(t *testing.T) {
	reg := registryWithMath(t)
	ep, _ := NewEndpoint("dtn1", reg, EndpointConfig{Workers: 2})
	ep.Start()
	defer ep.Stop()
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()

	remote := NewRemoteEndpoint(srv.URL)
	specs := []Spec{
		{Function: "add", Args: map[string]any{"a": float64(20), "b": float64(22)}},
		{Function: "boom"},
		{Function: "add", Args: map[string]any{"a": float64(1), "b": float64(2)}},
	}
	futs, err := remote.SubmitBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(futs))
	for i, f := range futs {
		ids[i] = f.TaskID
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sts, err := remote.PollBatch(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) != 3 {
			t.Fatalf("poll returned %d tasks, want 3", len(sts))
		}
		settled := 0
		for _, st := range sts {
			if st.State == Completed || st.State == Errored {
				settled++
			}
		}
		if settled == 3 {
			if sts[0].Result.(float64) != 42 || sts[2].Result.(float64) != 3 {
				t.Fatalf("results = %v / %v", sts[0].Result, sts[2].Result)
			}
			if sts[1].State != Errored || sts[1].Error == "" {
				t.Fatalf("boom task state = %+v, want errored", sts[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never settled: %+v", sts)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Unknown IDs fail the whole poll, like GET /tasks/{id}.
	if _, err := remote.PollBatch(context.Background(), []string{"ghost"}); err == nil {
		t.Fatal("poll of unknown id succeeded")
	}
}
