package testonly

import (
	"testing"

	"repro/tools/drybellvet/analysis/analysistest"
)

func TestTestOnly(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "repro/internal/lib", "repro/internal/user", "repro/pkg/sdk")
}
