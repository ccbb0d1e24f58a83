package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp says what produced a result document, so two documents can be told
// comparable or not.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// GOGC is what the children ran with: they never inherit an override.
	GOGC string `json:"gogc"`
}

func machineStamp(root string) stamp {
	return stamp{
		Commit:     readCommit(root),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.NumCPU(), // the children's default, GOMAXPROCS being scrubbed
		GOGC:       "100 (default)",
	}
}

// readCommit reads the checked-out commit from root/.git without running
// git, which would search directories above root; "unknown" when root is
// not a git checkout.
func readCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
