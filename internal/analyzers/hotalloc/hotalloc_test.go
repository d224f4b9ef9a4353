package hotalloc_test

import (
	"path/filepath"
	"testing"

	"mobicache/internal/analyzers/framework"
	"mobicache/internal/analyzers/hotalloc"
)

func TestAnalyzer(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	framework.RunTest(t, testdata, hotalloc.Analyzer, "hotalloc", "internal/sim", "internal/cache", "internal/netsim")
}
