package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobicache/internal/analyzers"
	"mobicache/internal/analyzers/framework"
)

// writeModule lays out a throwaway module for the driver to lint. Files
// maps relative paths to contents; a go.mod is added automatically.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module lintme\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// hotSrc trips hotalloc exactly once: an annotated function that appends.
const hotSrc = `package a

//mobicache:hot
func Push(dst []int, v int) []int {
	return append(dst, v)
}
`

func lint(t *testing.T, dir string, opts lintOptions) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	code := runLint(dir, opts, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestJSONReportShape(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": hotSrc})
	out := filepath.Join(dir, "findings.json")
	code, stdout, stderr := lint(t, dir, lintOptions{JSONPath: out})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "hotalloc") {
		t.Errorf("human output missing finding: %q", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Version  int                 `json:"version"`
		Tool     string              `json:"tool"`
		Findings []framework.Finding `json:"findings"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parsing report: %v\n%s", err, data)
	}
	if report.Version != 1 || report.Tool != "mobilint" {
		t.Errorf("header = {version:%d tool:%q}, want {1 mobilint}", report.Version, report.Tool)
	}
	if len(report.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", report.Findings)
	}
	f := report.Findings[0]
	if f.Analyzer != "hotalloc" || f.File != "a.go" || f.Line == 0 || f.Column == 0 || f.Baselined {
		t.Errorf("finding = %+v, want fresh hotalloc at a.go with position", f)
	}
}

func TestSARIFReportShape(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": hotSrc})
	out := filepath.Join(dir, "findings.sarif")
	code, _, _ := lint(t, dir, lintOptions{SARIFPath: out})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("parsing SARIF: %v\n%s", err, data)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("log header = {%q %q}, want SARIF 2.1.0", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "mobilint" {
		t.Errorf("driver name = %q, want mobilint", run.Tool.Driver.Name)
	}
	if want := len(analyzers.All()); len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %+v, want exactly 1", run.Results)
	}
	r := run.Results[0]
	loc := r.Locations[0].PhysicalLocation
	if r.RuleID != "hotalloc" || r.Level != "error" ||
		loc.ArtifactLocation.URI != "a.go" || loc.Region.StartLine == 0 {
		t.Errorf("result = %+v, want error-level hotalloc at a.go", r)
	}
}

func TestBaselineAcceptsAndExpires(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": hotSrc})
	bl := filepath.Join(dir, "lint.baseline.json")

	code, stdout, stderr := lint(t, dir, lintOptions{WriteBaseline: bl})
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "1 accepted finding") {
		t.Errorf("write-baseline output = %q", stdout)
	}

	// With the baseline, the same finding no longer fails the build, and
	// the SARIF log demotes it to a note.
	sarif := filepath.Join(dir, "findings.sarif")
	code, stdout, stderr = lint(t, dir, lintOptions{BaselinePath: bl, SARIFPath: sarif})
	if code != 0 {
		t.Fatalf("baselined exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"level": "note"`)) {
		t.Errorf("baselined finding not demoted to note:\n%s", data)
	}

	// Fix the violation: the baseline entry expires. Informational
	// normally, fatal under -strict-allow.
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = lint(t, dir, lintOptions{BaselinePath: bl})
	if code != 0 || !strings.Contains(stderr, "expired baseline entry") {
		t.Errorf("expired non-strict: exit = %d, stderr = %q; want 0 with warning", code, stderr)
	}
	code, stdout, _ = lint(t, dir, lintOptions{BaselinePath: bl, StrictAllow: true})
	if code != 1 || !strings.Contains(stdout, "matches no finding") {
		t.Errorf("expired strict: exit = %d, stdout = %q; want 1 with expiry report", code, stdout)
	}
}

func TestStrictAllowFlagsUnusedSuppressions(t *testing.T) {
	dir := writeModule(t, map[string]string{"a.go": `package a

//lint:allow hotalloc nothing here allocates
func Noop() {}
`})
	code, stdout, _ := lint(t, dir, lintOptions{})
	if code != 0 {
		t.Fatalf("non-strict exit = %d, want 0\nstdout: %s", code, stdout)
	}
	code, stdout, _ = lint(t, dir, lintOptions{StrictAllow: true})
	if code != 1 || !strings.Contains(stdout, "suppresses nothing") {
		t.Errorf("strict exit = %d, stdout = %q; want 1 flagging the unused allow", code, stdout)
	}
}
