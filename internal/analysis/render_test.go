package analysis

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func renderFixtures() []Diagnostic {
	return []Diagnostic{
		{
			Pos:     token.Position{Filename: "internal/laads/quota.go", Line: 125, Column: 9},
			Check:   "lockguard",
			Message: "Quota.rate is read without holding mu",
		},
		{
			Pos:     token.Position{Filename: "internal/compute/compute.go", Line: 47, Column: 25},
			Check:   "ctxflow",
			Message: "may block: 50% of paths\nsecond line",
		},
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, renderFixtures()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	for k, want := range map[string]any{
		"file":    "internal/laads/quota.go",
		"line":    float64(125),
		"col":     float64(9),
		"check":   "lockguard",
		"message": "Quota.rate is read without holding mu",
	} {
		if first[k] != want {
			t.Errorf("json field %q = %v, want %v", k, first[k], want)
		}
	}
	// Multi-line messages stay on one JSON line.
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 is not valid JSON: %v", err)
	}
	if !strings.Contains(second["message"].(string), "second line") {
		t.Errorf("message lost content: %v", second["message"])
	}
}

func TestWriteGitHubAnnotations(t *testing.T) {
	var b strings.Builder
	WriteGitHubAnnotations(&b, renderFixtures())
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	want := "::error file=internal/laads/quota.go,line=125,col=9,title=eomlvet lockguard::Quota.rate is read without holding mu"
	if lines[0] != want {
		t.Errorf("annotation = %q\nwant        %q", lines[0], want)
	}
	// Newlines and percent signs must be escaped, never raw.
	if strings.Contains(lines[1], "\n") || !strings.Contains(lines[1], "%0A") {
		t.Errorf("newline not escaped: %q", lines[1])
	}
	if !strings.Contains(lines[1], "50%25") {
		t.Errorf("percent not escaped: %q", lines[1])
	}
}

func TestAnnotationEscaping(t *testing.T) {
	if got := escapeAnnotationProperty("a:b,c%d"); got != "a%3Ab%2Cc%25d" {
		t.Errorf("property escape = %q", got)
	}
	if got := escapeAnnotationData("x%y\r\nz"); got != "x%25y%0D%0Az" {
		t.Errorf("data escape = %q", got)
	}
}
