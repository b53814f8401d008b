package stage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// recStage records which lifecycle phases ran, in a shared log.
type recStage struct {
	name     string
	log      *[]string
	setupErr error
	runErr   error
	drainErr error
}

func (r *recStage) Name() string { return r.name }

func (r *recStage) Setup(ctx context.Context, rc *RunContext) error {
	*r.log = append(*r.log, r.name+".setup")
	return r.setupErr
}

func (r *recStage) Run(ctx context.Context, rc *RunContext) error {
	*r.log = append(*r.log, r.name+".run")
	return r.runErr
}

func (r *recStage) Drain(ctx context.Context, rc *RunContext) error {
	*r.log = append(*r.log, r.name+".drain")
	return r.drainErr
}

func (r *recStage) Close() error {
	*r.log = append(*r.log, r.name+".close")
	return nil
}

func TestOrchestratorLifecycleOrder(t *testing.T) {
	var log []string
	a := &recStage{name: "a", log: &log}
	b := &recStage{name: "b", log: &log}
	o := NewOrchestrator(nil)
	if err := o.Execute(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.setup", "b.setup", // setup in order, before any run
		"a.run", "b.run", // runs in order
		"a.drain", "b.drain", // drains in order
		"b.close", "a.close", // closes in reverse
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("lifecycle order %v, want %v", log, want)
	}
	// Every stage got a span.
	for _, name := range []string{"a", "b"} {
		if _, ok := o.Context().Spans.Get(name); !ok {
			t.Errorf("missing span %q", name)
		}
	}
}

func TestOrchestratorRunErrorSkipsRestButCloses(t *testing.T) {
	var log []string
	boom := errors.New("boom")
	a := &recStage{name: "a", log: &log, runErr: boom}
	b := &recStage{name: "b", log: &log}
	err := NewOrchestrator(nil).Execute(context.Background(), a, b)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the run failure", err)
	}
	want := []string{"a.setup", "b.setup", "a.run", "b.close", "a.close"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

func TestOrchestratorSetupErrorUnwindsPartialSetup(t *testing.T) {
	var log []string
	boom := errors.New("no resources")
	a := &recStage{name: "a", log: &log}
	b := &recStage{name: "b", log: &log, setupErr: boom}
	c := &recStage{name: "c", log: &log}
	err := NewOrchestrator(nil).Execute(context.Background(), a, b, c)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the setup failure", err)
	}
	// No stage ran; a and the half-set-up b closed, c untouched.
	want := []string{"a.setup", "b.setup", "b.close", "a.close"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

func TestOrchestratorCancelledContextJoined(t *testing.T) {
	var log []string
	a := &recStage{name: "a", log: &log}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := NewOrchestrator(nil).Execute(ctx, a)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not include context.Canceled", err)
	}
	// Setup ran (arming is cancellation-agnostic), run was skipped,
	// close still happened.
	want := []string{"a.setup", "a.close"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

func TestOrchestratorCreatesDirs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "deep", "run", "dir")
	o := NewOrchestrator(&RunContext{Dirs: []string{dir}})
	if err := o.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("dir not created: %v", err)
	}
}

func TestFuncStage(t *testing.T) {
	ran := false
	st := Func("download", func(ctx context.Context, rc *RunContext) error {
		ran = true
		return nil
	})
	if st.Name() != "download" {
		t.Fatalf("name %q", st.Name())
	}
	if err := NewOrchestrator(nil).Execute(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("func stage did not run")
	}
}

// newIdleService builds a service with no labeler. A nil labeler is
// fine as long as no well-formed tile file is ever submitted:
// unparsable files fail in ReadNetCDF before the labeler is touched.
func newIdleService(t *testing.T) *InferenceService {
	t.Helper()
	return NewInferenceService(InferenceConfig{
		Workers:      2,
		OutboxDir:    t.TempDir(),
		StallTimeout: 5 * time.Second,
	})
}

// submitter is the upstream stage a driver puts before the service: it
// submits each path and then publishes the expectation.
func submitter(svc *InferenceService, paths ...string) Stage {
	return Func("preprocess", func(ctx context.Context, rc *RunContext) error {
		for _, p := range paths {
			if err := svc.Submit(ctx, p); err != nil {
				return err
			}
		}
		svc.ExpectFiles(len(paths))
		return nil
	})
}

func TestInferenceServiceZeroExpectation(t *testing.T) {
	svc := newIdleService(t)
	if err := NewOrchestrator(nil).Execute(context.Background(), submitter(svc), svc); err != nil {
		t.Fatal(err)
	}
	if svc.FilesLabeled() != 0 || svc.FlowsFailed() != 0 {
		t.Fatalf("labeled=%d failed=%d", svc.FilesLabeled(), svc.FlowsFailed())
	}
}

func TestInferenceServiceJoinsAllFlowErrors(t *testing.T) {
	dir := t.TempDir()
	// Two unparsable tile files: both flows must fail, and BOTH errors
	// must surface in the joined error (not just the first).
	var paths []string
	for _, name := range []string{"bad1.nc", "bad2.nc"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("not netcdf"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	svc := newIdleService(t)
	rc, _, _ := instrumentedRC()
	err := NewOrchestrator(rc).Execute(context.Background(), submitter(svc, paths...), svc)
	if err == nil {
		t.Fatal("bad tile files produced no error")
	}
	if svc.FlowsFailed() != 2 {
		t.Fatalf("FlowsFailed = %d, want 2", svc.FlowsFailed())
	}
	for _, name := range []string{"bad1.nc", "bad2.nc"} {
		if !contains(err.Error(), name) {
			t.Errorf("joined error omits %s: %v", name, err)
		}
	}
	// The monitor stage counts submitted files in both directions.
	for _, dir := range []string{EventIn, EventOut} {
		if v := rc.EventCounter("monitor", dir).Value(); v != 2 {
			t.Errorf("monitor %s events = %v, want 2", dir, v)
		}
	}
}

// TestInferenceServiceSubmitAfterShutdown: Submit to a service that has
// shut down fails at once instead of blocking.
func TestInferenceServiceSubmitAfterShutdown(t *testing.T) {
	svc := NewInferenceService(InferenceConfig{Workers: 1, OutboxDir: t.TempDir()})
	if err := svc.Setup(context.Background(), &RunContext{}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := svc.Submit(context.Background(), "late.nc"); err == nil || !contains(err.Error(), "late.nc") {
		t.Fatalf("Submit after Close = %v, want an error naming the file", err)
	}
}

func TestInferenceServiceCancelledWhileWaiting(t *testing.T) {
	svc := newIdleService(t)
	// Expectation never satisfied: one file promised, none produced.
	svc.ExpectFiles(1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- NewOrchestrator(nil).Execute(ctx, svc)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not include context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled service did not shut down")
	}
}

func TestInferenceServiceStallTimeout(t *testing.T) {
	svc := NewInferenceService(InferenceConfig{
		OutboxDir:    t.TempDir(),
		StallTimeout: 30 * time.Millisecond,
	})
	svc.ExpectFiles(3) // never arrives
	err := NewOrchestrator(nil).Execute(context.Background(), svc)
	if err == nil || !contains(err.Error(), "stalled") {
		t.Fatalf("stall not reported: %v", err)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
