package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestUsageErrors: every rejected command line exits 2 with the offending
// flag named on stderr and nothing on stdout — the sweep never started.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args string
		want string // fragment stderr must contain
	}{
		{"-topo tree,badkey=1", "-topo"},
		{"-fig fig_scale -topo tree,depth=x", "-topo"},
		{"-topo nope", "-topo"},
		{"-fig nope", "nope"},
		{"-churn -1", "-churn"},
		{"-fig fig_scale -aggregate -federate", "-aggregate"},
		{"-aggregate -federate", "-aggregate"}, // the pair itself, not fig_failure's stand-in
		{"-fig fig_failure -shards 2", "fig_failure"},
		{"-fig fig_failure -federate", "fig_failure"},
		{"-fig fig_scale -topo mesh -federate", "-federate"},
		{"-shards 2", "-shards"}, // -fig all includes fig_failure
		{"-parallel many", "-parallel"},
		{"-duration 5", "-duration"}, // not a topobench flag
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 2 {
			t.Errorf("topobench %s: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("topobench %s: stderr %q does not name %s", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("topobench %s: wrote to stdout before rejecting: %q", c.args, stdout.String())
		}
	}
}

// TestDocExamplesParse: every example in the doc comment is a command line
// the parser and Scenario.Validate accept, and a bare family name stays a
// legal -topo.
func TestDocExamplesParse(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	examples := regexp.MustCompile(`(?m)^//\ttopobench\b([^#\n]*)`).FindAllStringSubmatch(string(src), -1)
	if len(examples) == 0 {
		t.Fatal("no example lines found in the doc comment")
	}
	lines := []string{"-fig fig_scale -topo star", "-fig fig_scale -topo star,arms=4,rxarm=3,delay=0.05"}
	for _, m := range examples {
		lines = append(lines, m[1])
	}
	for _, line := range lines {
		if _, err := parse(strings.Fields(line), io.Discard); err != nil {
			t.Errorf("topobench %s: %v", strings.TrimSpace(line), err)
		}
	}
}

// TestQuickFigure drives one quick figure end to end through run.
func TestQuickFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-fig fig_scale -quick -progress=false -topo star,arms=4,rxarm=3,delay=0.05"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{"fig_scale: receivers vs cost", "star,arms=4,rxarm=3,delay=0.05", "total wall time:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}
