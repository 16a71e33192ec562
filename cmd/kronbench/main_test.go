package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// runFig must create a -json-dir that does not exist yet, nested or not,
// rather than fail after the figure has already run.
func TestRunFigCreatesJSONDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "nested")
	defer func(old string) { jsonDir = old }(jsonDir)
	jsonDir = dir
	err := runFig("probe", func(int) error {
		recordBench("answer", 42)
		return nil
	}, 1)
	if err != nil {
		t.Fatalf("runFig: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_probe.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if got["name"] != "probe" || got["answer"] != float64(42) {
		t.Errorf("snapshot = %v, want name probe and answer 42", got)
	}
}
