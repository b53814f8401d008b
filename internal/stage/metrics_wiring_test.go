package stage

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/metrics"
)

// instrumentedRC builds a RunContext with live metric and health sinks.
func instrumentedRC() (*RunContext, *metrics.Registry, *metrics.Health) {
	reg := metrics.NewRegistry()
	h := metrics.NewHealth()
	return &RunContext{Metrics: reg, Health: h}, reg, h
}

func familySet(reg *metrics.Registry) map[string]bool {
	out := map[string]bool{}
	for _, f := range reg.Snapshot() {
		out[f.Name] = true
	}
	return out
}

func TestOrchestratorInstrumentsStages(t *testing.T) {
	var log []string
	a := &recStage{name: "a", log: &log}
	b := &recStage{name: "b", log: &log}
	rc, reg, h := instrumentedRC()
	if err := NewOrchestrator(rc).Execute(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	fams := familySet(reg)
	for _, want := range []string{MetricStageEvents, MetricStageFailures, MetricStageSeconds} {
		if !fams[want] {
			t.Errorf("registry missing %s after a clean run", want)
		}
	}
	// Each stage's latency histogram got exactly one sample (the drain
	// phase extends the span rather than adding a second observation).
	for _, f := range reg.Snapshot() {
		if f.Name != MetricStageSeconds {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram == nil || s.Histogram.Count != 1 {
				t.Errorf("stage %v latency sample count = %+v, want 1", s.Labels, s.Histogram)
			}
		}
	}
	healthy, stages := h.Check()
	if !healthy {
		t.Errorf("health unhealthy after clean run: %+v", stages)
	}
	for _, st := range stages {
		if st.State != metrics.StateDone {
			t.Errorf("stage %s state %s, want done", st.Stage, st.State)
		}
	}
}

func TestStageFailureCountsAndMarksUnhealthy(t *testing.T) {
	var log []string
	boom := errors.New("boom")
	a := &recStage{name: "a", log: &log, runErr: boom}
	rc, _, h := instrumentedRC()
	if err := NewOrchestrator(rc).Execute(context.Background(), a); !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the run failure", err)
	}
	if v := rc.failures("a").Value(); v != 1 {
		t.Errorf("failure counter = %v, want 1", v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != 503 {
		t.Fatalf("healthz after stage failure = %d, want 503", w.Code)
	}
}

// TestInferenceStallFlipsHealthz is the acceptance check for
// stall_timeout_ms: when the inference stage stops making progress for
// longer than its stall budget, the run aborts and /healthz reports 503.
func TestInferenceStallFlipsHealthz(t *testing.T) {
	svc := NewInferenceService(InferenceConfig{
		OutboxDir:    t.TempDir(),
		StallTimeout: 30 * time.Millisecond,
	})
	svc.ExpectFiles(1) // promised file never arrives
	rc, _, h := instrumentedRC()
	err := NewOrchestrator(rc).Execute(context.Background(), svc)
	if err == nil || !contains(err.Error(), "stalled") {
		t.Fatalf("stall not reported: %v", err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != 503 {
		t.Fatalf("healthz after stall = %d, want 503", w.Code)
	}
	_, stages := h.Check()
	for _, st := range stages {
		if st.Stage == svc.Name() && st.State != metrics.StateFailed {
			t.Errorf("inference state %s, want failed", st.State)
		}
	}
}
