package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestUsageErrors: every rejected command line exits 2 with the offending
// flag named on stderr and nothing on stdout — no world was built, no
// simulator event fired.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args string
		want string // fragment stderr must contain
	}{
		{"-duration 0", "-duration"},
		{"-duration -3", "-duration"},
		{"-staleness -1", "-staleness"},
		{"-topo tree,badkey=1", "-topo"},
		{"-topo tree,depth=x", "-topo"},
		{"-topo nope", "-topo"},
		{"-algo rlm -explain", "-explain"},
		{"-topo tiered -federate -explain", "-explain"},
		{"-failat 60 -shards 4", "-shards"},
		{"-topo tiered -failat 60 -federate", "-federate"},
		{"-topo tiered -federate -aggregate", "-aggregate"},
		{"-churn -2", "-churn"},
		{"-failat 60 -outage 0", "-outage"},
		{"-algo rlm -aggregate", "-aggregate"},
		{"-algo rlm -topo tiered -federate", "-federate"},
		{"-federate -algo rlm", "-federate"}, // the same pair, flag order flipped
		{"-topo a,rxset=2 -federate", "-federate"},
		{"-topo mesh -federate", "-topo"},
		{"-traffic foo", "-traffic"},
		{"-algo foo", "-algo"},
		{"-obs out.txt", "-obs"},
		{"-receivers 4", "-receivers"}, // removed with -topology and -sessions
		{"-billing", "-billing"},       // removed with the controller's ledger
		{"-shards many", "-shards"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 2 {
			t.Errorf("toposim %s: exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("toposim %s: stderr %q does not name %s", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("toposim %s: wrote to stdout before rejecting: %q", c.args, stdout.String())
		}
	}
}

// docExamples returns the argument lists of the `tool ...` example lines in
// a command's doc comment, trailing `# comment` stripped.
func docExamples(t *testing.T, tool string) [][]string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, m := range regexp.MustCompile(`(?m)^//\t`+tool+`\b([^#\n]*)`).FindAllStringSubmatch(string(src), -1) {
		out = append(out, strings.Fields(m[1]))
	}
	if len(out) == 0 {
		t.Fatal("no example lines found in the doc comment")
	}
	return out
}

// TestDocExamplesParse: every example in the doc comment is a command line
// the parser and Scenario.Validate accept.
func TestDocExamplesParse(t *testing.T) {
	for _, args := range docExamples(t, "toposim") {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("toposim %s: %v", strings.Join(args, " "), err)
		}
	}
}

func TestTopoListPrintsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-topo", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, name := range []string{"a", "b", "tiered", "tree", "star", "linear", "mesh", "ladder", "lastmile", "domains"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("registry listing lacks generator %q:\n%s", name, stdout.String())
		}
	}
}

// TestRunMatchesFixture drives one short aggregated, churned run end to end
// and compares stdout, minus the wall-clock `run:` line, with the committed
// capture — on the serial engine and on four shards, which must agree.
func TestRunMatchesFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/tree_agg_churn.txt")
	if err != nil {
		t.Fatal(err)
	}
	base := "-topo tree,depth=2,branch=3,rxleaf=2 -aggregate -churn 4 -duration 20"
	for _, args := range []string{base, base + " -shards 4"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
			t.Fatalf("toposim %s: exit %d, stderr %q", args, code, stderr.String())
		}
		var kept []string
		runLines := 0
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if strings.HasPrefix(line, "run: ") {
				runLines++
				continue
			}
			kept = append(kept, line)
		}
		if runLines != 1 {
			t.Errorf("toposim %s: %d `run:` lines, want 1", args, runLines)
		}
		if got := strings.Join(kept, ""); got != string(want) {
			t.Errorf("toposim %s: stdout differs from testdata/tree_agg_churn.txt:\n%s", args, got)
		}
	}
}

// TestMemProfileMarksSetUp: -memprofile FILE writes FILE.start after set-up
// beside FILE after the run, leaves the simulation's output alone and
// restores the process's sampling rate.
func TestMemProfileMarksSetUp(t *testing.T) {
	args := strings.Fields("-topo b,sessions=2 -duration 20")
	plain := runStdout(t, args)
	rate := runtime.MemProfileRate
	path := filepath.Join(t.TempDir(), "mem.pprof")
	profiled := runStdout(t, append(args, "-memprofile", path))
	for _, f := range []string{path + ".start", path} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}
	if runtime.MemProfileRate != rate {
		t.Errorf("MemProfileRate left at %d, was %d", runtime.MemProfileRate, rate)
	}
	if profiled != plain {
		t.Errorf("-memprofile changed the run's output:\n%s\nwant\n%s", profiled, plain)
	}
}

// runStdout runs toposim and returns its stdout without the wall-clock
// `run:` line.
func runStdout(t *testing.T, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("toposim %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr.String())
	}
	return regexp.MustCompile(`(?m)^run: .*\n`).ReplaceAllString(stdout.String(), "")
}
